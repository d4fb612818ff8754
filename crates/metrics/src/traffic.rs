//! Wire-traffic accounting (Table 1: amount and size of control messages).

use std::collections::BTreeMap;

/// Per-category message count and byte totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Messages sent.
    pub count: u64,
    /// Total encoded bytes.
    pub bytes: u64,
}

impl Tally {
    /// Mean message size, or 0 for an empty tally.
    pub fn mean_size(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.bytes as f64 / self.count as f64
        }
    }
}

/// Counts messages and bytes per category label.
#[derive(Clone, Debug, Default)]
pub struct TrafficMeter {
    tallies: BTreeMap<String, Tally>,
}

impl TrafficMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `size` bytes under `category`. Only the first
    /// message of a category allocates its key.
    pub fn record(&mut self, category: &str, size: usize) {
        let size = size as u64;
        match self.tallies.get_mut(category) {
            Some(t) => {
                t.count += 1;
                t.bytes += size;
            }
            None => {
                let first = Tally {
                    count: 1,
                    bytes: size,
                };
                self.tallies.insert(category.to_owned(), first);
            }
        }
    }

    /// The tally for `category` (zero if never recorded).
    pub fn get(&self, category: &str) -> Tally {
        self.tallies.get(category).copied().unwrap_or_default()
    }

    /// Sum over a set of categories.
    pub fn sum<'a>(&self, categories: impl IntoIterator<Item = &'a str>) -> Tally {
        let mut out = Tally::default();
        for c in categories {
            let t = self.get(c);
            out.count += t.count;
            out.bytes += t.bytes;
        }
        out
    }

    /// Grand total over all categories.
    pub fn total(&self) -> Tally {
        let mut out = Tally::default();
        for t in self.tallies.values() {
            out.count += t.count;
            out.bytes += t.bytes;
        }
        out
    }

    /// Iterates categories in lexical order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Tally)> {
        self.tallies.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &TrafficMeter) {
        for (k, v) in &other.tallies {
            let t = self.tallies.entry(k.clone()).or_default();
            t.count += v.count;
            t.bytes += v.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_count_and_bytes() {
        let mut m = TrafficMeter::new();
        m.record("request", 100);
        m.record("request", 50);
        m.record("decision", 200);
        assert_eq!(
            m.get("request"),
            Tally {
                count: 2,
                bytes: 150
            }
        );
        assert_eq!(m.get("request").mean_size(), 75.0);
        assert_eq!(m.get("absent"), Tally::default());
    }

    #[test]
    fn total_and_sum() {
        let mut m = TrafficMeter::new();
        m.record("a", 1);
        m.record("b", 2);
        m.record("c", 3);
        assert_eq!(m.total(), Tally { count: 3, bytes: 6 });
        assert_eq!(m.sum(["a", "c"]), Tally { count: 2, bytes: 4 });
    }

    #[test]
    fn empty_tally_mean_is_zero() {
        assert_eq!(Tally::default().mean_size(), 0.0);
    }

    #[test]
    fn iteration_is_lexical() {
        let mut m = TrafficMeter::new();
        m.record("z", 1);
        m.record("a", 1);
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "z"]);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = TrafficMeter::new();
        a.record("x", 10);
        let mut b = TrafficMeter::new();
        b.record("x", 5);
        b.record("y", 1);
        a.merge(&b);
        assert_eq!(
            a.get("x"),
            Tally {
                count: 2,
                bytes: 15
            }
        );
        assert_eq!(a.get("y").count, 1);
    }
}
