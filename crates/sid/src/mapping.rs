//! The 1:1 topic ↔ SID registry.
//!
//! Collect Agents translate every incoming MQTT topic into a SID before
//! storing readings (paper §4.2).  The hash-based field mapping in
//! [`crate::SensorId`] is deterministic, but 16-bit fields can collide for
//! different component strings; the registry detects such collisions and
//! disambiguates by probing the least-significant unused field, keeping the
//! mapping bijective within one deployment.

use std::borrow::Cow;
use std::collections::HashMap;

use parking_lot::RwLock;

use crate::sid::{SensorId, SidError, LEVELS};
use crate::topic;

/// First hierarchy level reserved for the framework's self-monitoring
/// sensors: the collect agent periodically folds its metrics registry into
/// readings under `/_dcdb/<node>/<metric>`.  User publishes there are
/// rejected with [`SidError::Reserved`].
pub const RESERVED_PREFIX: &str = "_dcdb";

/// Is this (normalized) topic inside the reserved self-monitoring
/// hierarchy, i.e. is its first level exactly [`RESERVED_PREFIX`]?
pub fn is_reserved(topic: &str) -> bool {
    let first = topic.strip_prefix('/').unwrap_or(topic);
    let first = first.split('/').next().unwrap_or("");
    first == RESERVED_PREFIX
}

/// `topic` normalised ([`topic::normalize`]), borrowed when it already is:
/// exactly one leading `/` and no trailing `/`.
fn normalized(topic: &str) -> Cow<'_, str> {
    match topic.strip_prefix('/') {
        Some(rest) if !rest.starts_with('/') && !rest.ends_with('/') => Cow::Borrowed(topic),
        _ => Cow::Owned(topic::normalize(topic)),
    }
}

/// A thread-safe bidirectional topic ↔ SID map.
///
/// `resolve` is the hot path (one lookup per publish): for a known topic
/// that is already normalised it takes a read lock and allocates nothing.
#[derive(Debug, Default)]
pub struct TopicRegistry {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    by_topic: HashMap<String, SensorId>,
    by_sid: HashMap<SensorId, String>,
    collisions: u64,
}

impl TopicRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve `topic` to its SID, registering it on first sight.
    ///
    /// # Errors
    /// Propagates topic validation failures, and rejects topics under the
    /// reserved [`RESERVED_PREFIX`] self-monitoring hierarchy with
    /// [`SidError::Reserved`] — the framework publishes its own health
    /// there and user sensors must not collide with it.
    pub fn resolve(&self, topic: &str) -> Result<SensorId, SidError> {
        let norm = normalized(topic);
        if is_reserved(&norm) {
            return Err(SidError::Reserved(norm.into_owned()));
        }
        self.resolve_normalized(&norm)
    }

    /// [`resolve`](Self::resolve) without the reserved-hierarchy check —
    /// the entry point for the framework's *own* publishes (self-monitor
    /// folds under `_dcdb/`).
    pub fn resolve_internal(&self, topic: &str) -> Result<SensorId, SidError> {
        self.resolve_normalized(&normalized(topic))
    }

    /// Register `topic` under exactly `sid`, as recorded by an earlier
    /// run: no hashing and no collision probing, so a reloaded database
    /// gives every topic the SID its stored data is keyed by, whatever the
    /// order of the records.  Like [`resolve_internal`](Self::resolve_internal)
    /// it accepts the reserved hierarchy.
    ///
    /// # Errors
    /// Topic validation failures, and [`SidError::Conflict`] when the topic
    /// or the SID is already registered.
    pub fn restore(&self, topic: &str, sid: SensorId) -> Result<(), SidError> {
        let norm = topic::normalize(topic);
        topic::is_valid_topic(&norm)?;
        let mut inner = self.inner.write();
        if let Some(&other) = inner.by_topic.get(&norm) {
            return Err(SidError::Conflict(format!("{norm} already has SID {other}")));
        }
        if let Some(other) = inner.by_sid.get(&sid) {
            return Err(SidError::Conflict(format!("SID {sid} already names {other}")));
        }
        inner.by_topic.insert(norm.clone(), sid);
        inner.by_sid.insert(sid, norm);
        Ok(())
    }

    fn resolve_normalized(&self, norm: &str) -> Result<SensorId, SidError> {
        if let Some(&sid) = self.inner.read().by_topic.get(norm) {
            return Ok(sid);
        }
        let mut sid = SensorId::from_topic(norm)?;
        let mut inner = self.inner.write();
        // Re-check under the write lock: another thread may have registered it.
        if let Some(&existing) = inner.by_topic.get(norm) {
            return Ok(existing);
        }
        // Collision probing: if the hash SID is taken by a *different* topic,
        // perturb the last field until a free slot is found.
        let mut probe: u128 = 1;
        while let Some(other) = inner.by_sid.get(&sid) {
            debug_assert_ne!(other, norm);
            inner.collisions += 1;
            sid = SensorId(sid.0.wrapping_add(probe));
            probe = probe.wrapping_mul(2).wrapping_add(1);
        }
        inner.by_topic.insert(norm.to_owned(), sid);
        inner.by_sid.insert(sid, norm.to_owned());
        Ok(sid)
    }

    /// Look up a topic by SID, if registered.
    pub fn topic_of(&self, sid: SensorId) -> Option<String> {
        self.inner.read().by_sid.get(&sid).cloned()
    }

    /// Look up the SID for a topic without registering it.
    pub fn get(&self, topic: &str) -> Option<SensorId> {
        self.inner.read().by_topic.get(&*normalized(topic)).copied()
    }

    /// Number of registered sensors.
    pub fn len(&self) -> usize {
        self.inner.read().by_topic.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of hash collisions resolved by probing so far.
    pub fn collisions(&self) -> u64 {
        self.inner.read().collisions
    }

    /// All registered SIDs whose topic lies under `prefix_topic`.
    ///
    /// This backs hierarchical queries ("everything below this rack").
    pub fn sids_under(&self, prefix_topic: &str) -> Vec<(String, SensorId)> {
        let inner = self.inner.read();
        let mut v: Vec<(String, SensorId)> = inner
            .by_topic
            .iter()
            .filter(|(t, _)| topic::is_ancestor(prefix_topic, t))
            .map(|(t, s)| (t.clone(), *s))
            .collect();
        v.sort();
        v
    }

    /// Distinct component names present at hierarchy level `level` under
    /// `prefix_topic` — backs the Grafana drop-down navigation (paper §5.4).
    pub fn children_at(&self, prefix_topic: &str, level: usize) -> Vec<String> {
        if level >= LEVELS {
            return Vec::new();
        }
        let inner = self.inner.read();
        let mut names: Vec<String> = inner
            .by_topic
            .keys()
            .filter(|t| topic::is_ancestor(prefix_topic, t))
            .filter_map(|t| topic::split_levels(t).get(level).map(|s| s.to_string()))
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_is_stable() {
        let reg = TopicRegistry::new();
        let a = reg.resolve("/x/y/z").unwrap();
        let b = reg.resolve("x/y/z").unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.topic_of(a).as_deref(), Some("/x/y/z"));
    }

    #[test]
    fn normalized_borrows_exactly_the_normalized_topics() {
        for t in ["/a/b", "/a", "/", "", "a/b", "//a", "/a/", "/a//b", "a/", "//"] {
            let norm = normalized(t);
            assert_eq!(norm, topic::normalize(t), "{t:?}");
            assert_eq!(matches!(norm, Cow::Borrowed(_)), topic::normalize(t) == t, "{t:?}");
        }
    }

    #[test]
    fn get_does_not_register() {
        let reg = TopicRegistry::new();
        assert!(reg.get("/a/b").is_none());
        let s = reg.resolve("/a/b").unwrap();
        assert_eq!(reg.get("/a/b"), Some(s));
        assert!(!reg.is_empty());
    }

    #[test]
    fn invalid_topics_error() {
        let reg = TopicRegistry::new();
        assert!(reg.resolve("/a//b").is_err());
        assert!(reg.resolve("").is_err());
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn many_topics_stay_bijective() {
        let reg = TopicRegistry::new();
        let mut sids = std::collections::HashSet::new();
        for r in 0..4 {
            for n in 0..64 {
                for s in ["power", "temp", "instr", "mem"] {
                    let t = format!("/lrz/sys/rack{r}/node{n}/{s}");
                    let sid = reg.resolve(&t).unwrap();
                    assert!(sids.insert(sid), "duplicate sid for {t}");
                }
            }
        }
        assert_eq!(reg.len(), 4 * 64 * 4);
        // every sid resolves back to exactly its topic
        for r in 0..4 {
            let t = format!("/lrz/sys/rack{r}/node0/power");
            let sid = reg.get(&t).unwrap();
            assert_eq!(reg.topic_of(sid).unwrap(), t);
        }
    }

    #[test]
    fn reserved_hierarchy_is_rejected_for_users_only() {
        let reg = TopicRegistry::new();
        // user-facing resolve rejects anything whose first level is _dcdb
        for t in ["/_dcdb/node0/inserts", "_dcdb/x", "/_dcdb"] {
            match reg.resolve(t) {
                Err(SidError::Reserved(norm)) => assert!(norm.starts_with("/_dcdb")),
                other => panic!("expected Reserved error for {t}, got {other:?}"),
            }
        }
        assert_eq!(reg.len(), 0);
        // but `_dcdb` deeper in the tree, or as a prefix of a longer name, is fine
        reg.resolve("/sys/_dcdb/x").unwrap();
        reg.resolve("/_dcdbish/x").unwrap();
        // the framework's own entry point bypasses the reservation
        let sid = reg.resolve_internal("/_dcdb/node0/inserts").unwrap();
        assert_eq!(reg.topic_of(sid).as_deref(), Some("/_dcdb/node0/inserts"));
        assert_eq!(reg.get("/_dcdb/node0/inserts"), Some(sid));
    }

    #[test]
    fn restore_keeps_recorded_sids_and_rejects_conflicts() {
        let reg = TopicRegistry::new();
        let (a, b) = (SensorId(0xa), SensorId(0xb));
        reg.restore("/x/a", a).unwrap();
        reg.restore("/_dcdb/n0/m", b).unwrap();
        assert_eq!(reg.get("/x/a"), Some(a), "recorded verbatim, not hashed");
        assert_eq!(reg.topic_of(b).as_deref(), Some("/_dcdb/n0/m"));
        for (topic, sid) in [("x/a", a), ("/x/a", SensorId(0xc)), ("/x/c", a)] {
            let got = reg.restore(topic, sid);
            assert!(matches!(got, Err(SidError::Conflict(_))), "{topic} {sid}: {got:?}");
        }
        assert!(reg.restore("/x//c", SensorId(0xc)).is_err());
        assert_eq!(reg.len(), 2);
        // resolving after a restore probes around the restored SIDs
        let hashed = SensorId::from_topic("/x/a").unwrap();
        reg.restore("/y/taken", hashed).unwrap();
        assert_ne!(reg.resolve("/x/other").unwrap(), hashed);
    }

    #[test]
    fn hierarchy_navigation() {
        let reg = TopicRegistry::new();
        for n in 0..3 {
            reg.resolve(&format!("/sys/rack0/node{n}/power")).unwrap();
            reg.resolve(&format!("/sys/rack0/node{n}/temp")).unwrap();
        }
        reg.resolve("/sys/rack1/node0/power").unwrap();
        let under = reg.sids_under("/sys/rack0");
        assert_eq!(under.len(), 6);
        let racks = reg.children_at("/sys", 1);
        assert_eq!(racks, vec!["rack0", "rack1"]);
        let nodes = reg.children_at("/sys/rack0", 2);
        assert_eq!(nodes, vec!["node0", "node1", "node2"]);
        assert!(reg.children_at("/sys", LEVELS).is_empty());
    }
}
