//! MQTT topic filters and wildcard matching.
//!
//! Filters may contain `+` (matches exactly one level) and a trailing `#`
//! (matches any number of remaining levels, including zero).  Alert rules
//! select the topics they watch with these filters; the rules here follow
//! MQTT 3.1.1 §4.7.

/// Validate a topic filter.
///
/// `+` must occupy a whole level; `#` must occupy a whole level *and* be
/// last.  Empty filters are invalid; empty levels (`a//b`) are allowed by the
/// MQTT spec but rejected here for consistency with DCDB topics.
pub fn is_valid_filter(filter: &str) -> bool {
    if filter.is_empty() {
        return false;
    }
    let trimmed = filter.strip_prefix('/').unwrap_or(filter);
    if trimmed.is_empty() {
        return false;
    }
    let levels: Vec<&str> = trimmed.split('/').collect();
    for (i, level) in levels.iter().enumerate() {
        if level.is_empty() {
            return false;
        }
        if level.contains('#') && (*level != "#" || i != levels.len() - 1) {
            return false;
        }
        if level.contains('+') && *level != "+" {
            return false;
        }
    }
    true
}

/// Does `filter` match the concrete `topic`?
///
/// Both are interpreted with an optional leading `/` stripped, matching the
/// convention used throughout dcdb-rs.
pub fn filter_matches(filter: &str, topic: &str) -> bool {
    let f = filter.strip_prefix('/').unwrap_or(filter);
    let t = topic.strip_prefix('/').unwrap_or(topic);
    let mut fl = f.split('/');
    let mut tl = t.split('/');
    loop {
        match (fl.next(), tl.next()) {
            (Some("#"), _) => return true,
            (Some("+"), Some(_)) => continue,
            (Some(fseg), Some(tseg)) if fseg == tseg => continue,
            (None, None) => return true,
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_filters() {
        for f in ["#", "/#", "/a/#", "+", "/a/+/b", "/a/b/c", "a/b"] {
            assert!(is_valid_filter(f), "{f} should be valid");
        }
    }

    #[test]
    fn invalid_filters() {
        for f in ["", "/", "/a//b", "/a/#/b", "/a#", "/a+/b", "/#x"] {
            assert!(!is_valid_filter(f), "{f} should be invalid");
        }
    }

    #[test]
    fn exact_match() {
        assert!(filter_matches("/a/b/c", "/a/b/c"));
        assert!(filter_matches("a/b/c", "/a/b/c"));
        assert!(!filter_matches("/a/b", "/a/b/c"));
        assert!(!filter_matches("/a/b/c", "/a/b"));
    }

    #[test]
    fn plus_matches_one_level() {
        assert!(filter_matches("/a/+/c", "/a/b/c"));
        assert!(filter_matches("/+/b/c", "/a/b/c"));
        assert!(!filter_matches("/a/+", "/a/b/c"));
        assert!(filter_matches("/a/+", "/a/x"));
    }

    #[test]
    fn hash_matches_subtree() {
        assert!(filter_matches("#", "/anything/at/all"));
        assert!(filter_matches("/a/#", "/a/b/c"));
        assert!(filter_matches("/a/#", "/a"));
        assert!(!filter_matches("/a/#", "/b/a"));
    }

    #[test]
    fn mixed_wildcards() {
        assert!(filter_matches("/s/+/node0/#", "/s/rack1/node0/cpu0/instr"));
        assert!(!filter_matches("/s/+/node0/#", "/s/rack1/node1/cpu0/instr"));
    }
}
